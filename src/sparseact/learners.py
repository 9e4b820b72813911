"""Learning algorithms: low-degree polynomial regression on the uniform
distribution, and an improper generalized-decision-list learner for
1-sparse targets under arbitrary distributions.

The regression learner fits least squares over all monomials of degree at
most d; on full-cube data with no ridge its coefficients coincide with the
exact Fourier coefficients, which the tests exploit as an oracle.  The list
learner peels the training set with integer-grid halfspace gates whose
positive side admits an exact affine fit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import MAX_MONOMIALS
from .errors import CapacityError, InconsistentDataError, NoConsistentListError
from .fourier import tabulate, values_at
from .hypercube import CubePoint, Subset, index_signs

MAX_LIST_N = 6
MAX_LIST_M = 2


@dataclass(frozen=True)
class LabeledSample:
    x: CubePoint
    y: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.y):
            raise ValueError(f"label must be finite, got {self.y}")


def subsets_up_to(n: int, d: int) -> list[tuple[int, ...]]:
    """All coordinate subsets of size <= d, ordered by (size, lexicographic)."""
    out: list[tuple[int, ...]] = []
    for size in range(d + 1):
        out.extend(itertools.combinations(range(1, n + 1), size))
    return out


def _design_matrix(X: np.ndarray, monomials: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Columns chi_T(x_i) for each monomial T over sign rows X."""
    m = X.shape[0]
    Phi = np.empty((m, len(monomials)))
    for col, T in enumerate(monomials):
        if T:
            Phi[:, col] = np.prod(X[:, [i - 1 for i in T]], axis=1)
        else:
            Phi[:, col] = 1.0
    return Phi


@dataclass(frozen=True)
class MonomialModel:
    """Predictor sum_T c_T chi_T(x) over monomials of degree <= d."""

    n: int
    d: int
    coeffs: dict[Subset, float]

    def __post_init__(self) -> None:
        for T in self.coeffs:
            if T.n != self.n:
                raise ValueError(f"coefficient subset on {T.n} inputs, model on {self.n}")
            if T.size() > self.d:
                raise ValueError(
                    f"coefficient subset {T.sorted_members()} exceeds degree {self.d}"
                )

    def eval(self, x: CubePoint) -> float:
        if x.n != self.n:
            raise ValueError(f"dimension mismatch: model on {self.n}, point on {x.n}")
        signs = x.signs().astype(np.float64)
        total = 0.0
        for T, c in self.coeffs.items():
            term = c
            for i in T.members:
                term *= signs[i - 1]
            total += term
        return float(total)

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.zeros(X.shape[0])
        for T, c in self.coeffs.items():
            if T.members:
                out += c * np.prod(X[:, [i - 1 for i in sorted(T.members)]], axis=1)
            else:
                out += c
        return out

    def sorted_items(self) -> list[tuple[tuple[int, ...], float]]:
        """Coefficients in the canonical (size, lexicographic) order."""
        items = [(T.sorted_members(), c) for T, c in self.coeffs.items()]
        return sorted(items, key=lambda tc: (len(tc[0]), tc[0]))


def _check_data(data: Sequence[LabeledSample]) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, packed indices, labels) of a nonempty dataset on one dimension."""
    if not data:
        raise ValueError("data must be nonempty")
    n = data[0].x.n
    if any(s.x.n != n for s in data):
        raise ValueError("samples have inconsistent input dimensions")
    idx = np.array([s.x.index for s in data], dtype=np.int64)
    y = np.array([s.y for s in data], dtype=np.float64)
    return n, idx, y


def fit_low_degree(
    data: Sequence[LabeledSample], d: int, ridge: float = 1e-10
) -> MonomialModel:
    """Least-squares fit over all monomials of degree <= d.

    Solves the normal equations with an optional ridge term for
    conditioning; ridge=0 is exact on full-cube data, where the design is
    orthogonal and the solution equals the truncated Fourier expansion.
    Deterministic for fixed inputs.
    """
    n, idx, y = _check_data(data)
    X = index_signs(idx, n).astype(np.float64)
    if not 0 <= d <= n:
        raise ValueError(f"degree must lie in [0, {n}], got {d}")
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    monomials = subsets_up_to(n, d)
    if len(monomials) > MAX_MONOMIALS:
        raise CapacityError(
            f"{len(monomials)} monomials exceed the cap of {MAX_MONOMIALS}"
        )
    Phi = _design_matrix(X, monomials)
    G = Phi.T @ Phi
    if ridge > 0:
        G = G + ridge * np.eye(len(monomials))
    rhs = Phi.T @ y
    try:
        c = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        c, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    coeffs = {
        Subset(n, frozenset(T)): float(cv) for T, cv in zip(monomials, c)
    }
    return MonomialModel(n=n, d=d, coeffs=coeffs)


@dataclass(frozen=True)
class ListNode:
    """One (gate, leaf) stage: if <gate_w, x> - gate_b > 0 predict <leaf_v, x> + leaf_c."""

    gate_w: tuple[int, ...]
    gate_b: int
    leaf_v: tuple[float, ...]
    leaf_c: float

    def fires(self, signs: np.ndarray) -> bool:
        return float(np.dot(self.gate_w, signs)) - self.gate_b > 0.0

    def leaf_value(self, signs: np.ndarray) -> float:
        return float(np.dot(self.leaf_v, signs)) + self.leaf_c


@dataclass(frozen=True)
class GeneralizedDecisionList:
    """Ordered cascade of halfspace gates with affine leaves."""

    n: int
    nodes: tuple[ListNode, ...]
    default: float = 0.0

    def eval(self, x: CubePoint) -> float:
        if x.n != self.n:
            raise ValueError(f"dimension mismatch: list on {self.n}, point on {x.n}")
        signs = x.signs().astype(np.float64)
        for node in self.nodes:
            if node.fires(signs):
                return node.leaf_value(signs)
        return self.default

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.full(X.shape[0], self.default)
        undecided = np.ones(X.shape[0], dtype=bool)
        for node in self.nodes:
            fires = (X @ np.asarray(node.gate_w, dtype=np.float64) - node.gate_b) > 0.0
            take = fires & undecided
            if take.any():
                out[take] = X[take] @ np.asarray(node.leaf_v) + node.leaf_c
            undecided &= ~fires
        return out


def _check_consistent(data: Sequence[LabeledSample], tol: float) -> None:
    by_index: dict[int, float] = {}
    for s in data:
        prev = by_index.get(s.x.index)
        if prev is not None and abs(prev - s.y) > tol:
            raise InconsistentDataError(
                f"input index {s.x.index} carries labels {prev} and {s.y}"
            )
        by_index.setdefault(s.x.index, s.y)


def _affine_fit(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Least-squares affine fit; returns (v, c, max abs residual)."""
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = A @ sol - y
    return sol[:-1], float(sol[-1]), float(np.max(np.abs(resid)))


def fit_decision_list(
    data: Sequence[LabeledSample], s: int, M: int, tol: float = 1e-6
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
    n, idx, y = _check_data(data)
    X = index_signs(idx, n).astype(np.float64)
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


def evaluate_loss(predictor, data: Sequence[LabeledSample]) -> LossReport:
    """Mean loss of a predictor (anything :func:`~sparseact.fourier.values_at`
    accepts: a CubeFunction, a model with eval_batch, or a callable)."""
    n, idx, y = _check_data(data)
    preds = values_at(predictor, n, idx)
    return LossReport(mse=float(np.mean(0.5 * (preds - y) ** 2)), count=len(data))


def sample_uniform_dataset(
    f, n: int, m: int, rng: np.random.Generator
) -> list[LabeledSample]:
    """m uniform inputs labeled by f (anything ``values_at`` accepts)."""
    if m < 1:
        raise ValueError(f"need at least one sample, got {m}")
    idx = rng.integers(0, 1 << n, size=m)
    labels = values_at(f, n, idx)
    return [LabeledSample(CubePoint(n, int(u)), float(v)) for u, v in zip(idx, labels)]


def full_cube_dataset(f, n: int) -> list[LabeledSample]:
    """Every point of the cube labeled by f, in index order."""
    table = tabulate(f, n)
    return [
        LabeledSample(CubePoint(n, u), float(v)) for u, v in enumerate(table.values)
    ]
