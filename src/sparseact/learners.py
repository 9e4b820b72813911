"""Learning algorithms: low-degree polynomial regression on the uniform
distribution, and an improper generalized-decision-list learner for
1-sparse targets under arbitrary distributions.

The regression learner fits least squares over all monomials of degree at
most d; on full-cube data with no ridge its coefficients coincide with the
exact Fourier coefficients, which the tests exploit as an oracle.  The list
learner peels the training set with integer-grid halfspace gates whose
positive side admits an exact affine fit.  Both learn from a
:class:`Dataset` of packed int64 indices and float64 labels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_LIST_M, MAX_LIST_N, MAX_MONOMIALS, MAX_PACKED_N
from .errors import CapacityError, InconsistentDataError, NoConsistentListError
from .fourier import tabulate, values_at
from .hypercube import CubePoint, index_signs, pack_signs


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Labeled points of {-1,+1}^n: packed indices ``idx`` (the encoding of
    :mod:`sparseact.hypercube`, int64, so n <= MAX_PACKED_N) and float64
    labels ``y``.  Both are read-only copies of what was passed."""

    n: int
    idx: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_PACKED_N:
            raise ValueError(f"dimension must be in [1, {MAX_PACKED_N}], got {self.n}")
        raw = np.asarray(self.idx)
        if raw.size and raw.dtype.kind not in "iu":
            raise ValueError(f"indices must be integers, got dtype {raw.dtype}")
        idx = _frozen(np.array(raw, dtype=np.int64))
        y = _frozen(np.array(self.y, dtype=np.float64))
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "y", y)
        if idx.ndim != 1 or idx.shape != y.shape:
            raise ValueError(f"need 1-d idx and y of one shape, got {idx.shape}, {y.shape}")
        if idx.size == 0:
            raise ValueError("data must be nonempty")
        if idx.min() < 0 or idx.max() >= 1 << self.n:
            raise ValueError(f"indices out of range [0, 2^{self.n})")
        if not np.all(np.isfinite(y)):
            raise ValueError("labels must be finite")

    def __len__(self) -> int:
        return self.idx.size


def _monomial_masks(n: int, d: int) -> np.ndarray:
    """Bitmasks of the subsets of size <= d, in (size, lexicographic) order."""
    subsets = (T for size in range(d + 1) for T in itertools.combinations(range(n), size))
    return np.array([sum(1 << i for i in T) for T in subsets], dtype=np.int64)


def _character(idx: np.ndarray, mask) -> np.ndarray:
    """chi_T at packed indices, as float64 +-1, for the subset bitmask of T."""
    return 1.0 - 2.0 * (np.bitwise_count(idx & mask) & 1)


@dataclass(frozen=True)
class MonomialModel:
    """Predictor sum_j coeffs[j] chi_{masks[j]}(x) over monomials of degree <= d.

    ``masks`` holds subset bitmasks (bit i-1 set iff coordinate i is in the
    monomial); ``fit_low_degree`` lists them in (size, lexicographic) order.
    ``coeffs`` holds the matching coefficients.
    """

    n: int
    d: int
    masks: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        masks = _frozen(np.array(self.masks, dtype=np.int64))
        coeffs = _frozen(np.array(self.coeffs, dtype=np.float64))
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "coeffs", coeffs)
        if masks.ndim != 1 or masks.shape != coeffs.shape:
            raise ValueError(f"need 1-d masks and coeffs of one shape, got {masks.shape}")
        if masks.size and (masks.min() < 0 or masks.max() >= 1 << self.n):
            raise ValueError(f"subset masks out of range [0, 2^{self.n})")
        if np.any(np.bitwise_count(masks) > self.d):
            raise ValueError(f"a coefficient subset exceeds degree {self.d}")

    def eval(self, x: CubePoint) -> float:
        return float(self.eval_batch(x.signs()[None])[0])

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate on an (N, n) array of +-1 rows; returns (N,) floats."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"expected (N, {self.n}) sign rows, got {X.shape}")
        idx = pack_signs(X)
        out = np.zeros(idx.size)
        # term by term in mask order, not as a matrix product: reported
        # losses depend on this summation order
        for mask, c in zip(self.masks, self.coeffs):
            out += c * _character(idx, mask)
        return out


def fit_low_degree(data: Dataset, d: int, ridge: float = 1e-10) -> MonomialModel:
    """Least-squares fit over all monomials of degree <= d.

    Solves the normal equations with an optional ridge term for
    conditioning; ridge=0 is exact on full-cube data, where the design is
    orthogonal and the solution equals the truncated Fourier expansion.
    Deterministic for fixed inputs.
    """
    n = data.n
    if not 0 <= d <= n:
        raise ValueError(f"degree must lie in [0, {n}], got {d}")
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    count = sum(math.comb(n, size) for size in range(d + 1))
    if count > MAX_MONOMIALS:
        raise CapacityError(f"{count} monomials exceed the cap of {MAX_MONOMIALS}")
    masks = _monomial_masks(n, d)
    Phi = np.empty((len(data), count))
    for col, mask in enumerate(masks):
        Phi[:, col] = _character(data.idx, mask)
    G = Phi.T @ Phi
    if ridge > 0:
        G = G + ridge * np.eye(count)
    rhs = Phi.T @ data.y
    try:
        c = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        c, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    return MonomialModel(n=n, d=d, masks=masks, coeffs=c)


@dataclass(frozen=True)
class ListNode:
    """One (gate, leaf) stage: if <gate_w, x> - gate_b > 0 predict <leaf_v, x> + leaf_c."""

    gate_w: tuple[int, ...]
    gate_b: int
    leaf_v: tuple[float, ...]
    leaf_c: float


@dataclass(frozen=True)
class GeneralizedDecisionList:
    """Ordered cascade of halfspace gates with affine leaves."""

    n: int
    nodes: tuple[ListNode, ...]
    default: float = 0.0

    def eval(self, x: CubePoint) -> float:
        return float(self.eval_batch(x.signs()[None])[0])

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate on an (N, n) array of +-1 rows; returns (N,) floats."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"expected (N, {self.n}) sign rows, got {X.shape}")
        out = np.full(X.shape[0], self.default)
        undecided = np.ones(X.shape[0], dtype=bool)
        for node in self.nodes:
            fires = (X @ np.asarray(node.gate_w, dtype=np.float64) - node.gate_b) > 0.0
            take = fires & undecided
            if take.any():
                out[take] = X[take] @ np.asarray(node.leaf_v) + node.leaf_c
            undecided &= ~fires
        return out


def _check_consistent(data: Dataset, tol: float) -> None:
    """Every sample's label lies within tol of the first label its input carries."""
    _, first, inverse = np.unique(data.idx, return_index=True, return_inverse=True)
    prev = data.y[first[inverse]]
    bad = np.flatnonzero(np.abs(prev - data.y) > tol)
    if bad.size:
        i = bad[0]
        raise InconsistentDataError(
            f"input index {int(data.idx[i])} carries labels {float(prev[i])} "
            f"and {float(data.y[i])}"
        )


def _affine_fit(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Least-squares affine fit; returns (v, c, max abs residual), the residual
    computed as ``GeneralizedDecisionList.eval_batch`` computes the leaf."""
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    v, c = sol[:-1], float(sol[-1])
    return v, c, float(np.max(np.abs(X @ v + c - y)))


def fit_decision_list(
    data: Dataset, s: int, M: int, tol: float = 1e-6
) -> GeneralizedDecisionList:
    """Peel the data with integer-grid halfspace gates and exact affine leaves.

    Each round scans every gate (w, b) in {-M..M}^{n+1} and selects, among
    the gates whose strictly-positive side covers at least
    ceil(remaining / (s+1)) samples and admits an affine fit with max
    absolute residual <= tol, the one with the largest coverage (ties broken
    by lexicographic order on (w, b)).  The covered samples are removed and
    the fitted leaf recorded; the default leaf is 0.  A 1-sparse net with s
    units splits the cube into at most s affine unit regions plus the
    inactive region where it vanishes, hence the s+1 in the pigeonhole
    threshold.

    Raises NoConsistentListError when a round finds no qualifying gate, and
    InconsistentDataError when duplicate inputs disagree beyond tol.
    """
    n, y = data.n, data.y
    if s < 1:
        raise ValueError(f"target unit count must be >= 1, got {s}")
    if M < 1:
        raise ValueError(f"grid bound must be >= 1, got {M}")
    if n > MAX_LIST_N or M > MAX_LIST_M:
        raise CapacityError(
            f"grid search needs n <= {MAX_LIST_N} and M <= {MAX_LIST_M}, "
            f"got n={n}, M={M}"
        )
    _check_consistent(data, tol)
    X = index_signs(data.idx, n).astype(np.float64)

    gates = np.array(
        list(itertools.product(range(-M, M + 1), repeat=n + 1)), dtype=np.float64
    )
    X_ext = np.hstack([X, -np.ones((X.shape[0], 1))])
    fires_all = (X_ext @ gates.T) > 0.0  # (m, n_gates)

    remaining = np.ones(len(data), dtype=bool)
    nodes: list[ListNode] = []
    while remaining.any():
        rem_idx = np.flatnonzero(remaining)
        coverage = fires_all[rem_idx].sum(axis=0)
        threshold = math.ceil(len(rem_idx) / (s + 1))
        # max coverage first, lexicographic gate order within equal coverage
        order = np.lexsort((np.arange(len(gates)), -coverage))
        chosen = None
        for gi in order:
            if coverage[gi] < threshold:
                break
            covered = rem_idx[fires_all[rem_idx, gi]]
            v, c, max_resid = _affine_fit(X[covered], y[covered])
            if max_resid <= tol:
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
    # the peel order guarantees each sample fires exactly its covering node,
    # so the per-leaf residual bound transfers to the whole list; check it
    # rather than assume it
    achieved = float(np.max(np.abs(result.eval_batch(X) - y)))
    if achieved > tol:
        raise AssertionError(
            f"internal error: training residual {achieved:.3g} exceeds tol {tol}"
        )
    return result


@dataclass(frozen=True)
class LossReport:
    """Mean half-squared loss (1/2)(prediction - label)^2 over a dataset."""

    mse: float
    count: int


def evaluate_loss(predictor, data: Dataset) -> LossReport:
    """Mean loss of a predictor (anything :func:`~sparseact.fourier.values_at`
    accepts: a CubeFunction, a model with eval_batch, or a callable)."""
    preds = values_at(predictor, data.n, data.idx)
    return LossReport(mse=float(np.mean(0.5 * (preds - data.y) ** 2)), count=len(data))


def sample_uniform_dataset(f, n: int, m: int, rng: np.random.Generator) -> Dataset:
    """m uniform inputs labeled by f (anything ``values_at`` accepts)."""
    if m < 1:
        raise ValueError(f"need at least one sample, got {m}")
    idx = rng.integers(0, 1 << n, size=m)
    return Dataset(n, idx, values_at(f, n, idx))


def full_cube_dataset(f, n: int) -> Dataset:
    """Every point of the cube labeled by f, in index order."""
    return Dataset(n, np.arange(1 << n), tabulate(f, n).values)
